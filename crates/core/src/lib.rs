#![warn(missing_docs)]
//! # sdgp-core — streaming dynamic graph processing on AM-CCA
//!
//! The primary contribution of the reproduced paper: structures and
//! techniques for streaming dynamic graph processing on decentralized
//! message-driven systems.
//!
//! * [`rpvo`] — the **Recursively-Parallel Vertex Object**: a logical vertex
//!   parallelized across many scratchpad-coupled compute cells (root + ghost
//!   objects linked by future-of-pointer slots) behind a single address.
//! * [`apps`] — streaming algorithms: edge ingestion (Listing 6), dynamic
//!   BFS (Listings 4–5), and the paper's future-work algorithms implemented
//!   here as extensions (SSSP, connected components, triangle counting).
//! * [`graph`] — the host-side [`graph::StreamingGraph`] façade running the
//!   paper's experiment workflow: construct roots, stream increments, verify.
//! * [`query`] — standing label-constrained path queries: pattern
//!   compilation to small automata whose per-vertex state bitsets are
//!   maintained incrementally as mutations stream, plus the from-scratch
//!   recompute oracle they are pinned against.
//! * [`checkpoint`] — serialization of the live edge multiset, converged
//!   fixpoint, and registered queries for the serving layer's
//!   checkpoint/restore cycle.

pub mod apps;
pub mod checkpoint;
pub mod graph;
pub mod query;
pub mod rpvo;

pub use apps::{BfsAlgo, CcAlgo, GraphApp, SsspAlgo, TriangleAlgo, VertexAlgo};
pub use checkpoint::GraphCheckpoint;
pub use graph::{symmetrize, GraphBuilder, MutationLog, StreamEdge, StreamingGraph};
pub use query::{
    oracle_bits_multi, oracle_results, oracle_results_multi, QueryDelta, QueryDfa, QueryError,
    StandingQuery,
};
pub use rpvo::{Edge, RpvoConfig, VertexObj};
