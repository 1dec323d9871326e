//! # amcca — streaming dynamic graph processing on a message-driven system
//!
//! Umbrella crate for the Rust reproduction of
//!
//! > Chandio, Brodowicz, Sterling. *Structures and Techniques for Streaming
//! > Dynamic Graph Processing on Decentralized Message-Driven Systems.*
//! > ICPP 2024 (arXiv:2406.01201).
//!
//! Re-exports the full stack:
//!
//! * [`amcca_sim`] — cycle-level AM-CCA chip simulator (mesh, YX routing,
//!   IO channels, energy model).
//! * [`diffusive`] — the diffusive programming model (actions, future LCOs,
//!   continuations, termination detection, the `Device` façade).
//! * [`sdgp_core`] — the paper's contribution: RPVO vertex storage, streaming
//!   edge ingestion, dynamic BFS and the extension algorithms.
//! * [`gc_datasets`] — GraphChallenge-style SBM workloads with Edge and
//!   Snowball sampling schedules.
//! * [`refgraph`] — sequential reference algorithms used as oracles.
//! * [`amcca_obs`] — wall-clock observability: metrics registry, latency
//!   histograms, batch-lifecycle span tracing (see `docs/OBSERVABILITY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use amcca::prelude::*;
//!
//! // A 32×32 chip, default RPVO shape, BFS rooted at vertex 0.
//! let mut g = StreamingGraph::builder(BfsAlgo::new(0))
//!     .vertices(100)
//!     .chip(ChipConfig::default())
//!     .rpvo(RpvoConfig::default())
//!     .build()
//!     .unwrap();
//!
//! // Stream a path 0→1→…→99 and run the diffusion to quiescence.
//! let edges: Vec<StreamEdge> = (0..99).map(|i| (i, i + 1, 1)).collect();
//! let report = g.stream_edges(&edges).unwrap();
//! assert_eq!(g.state_of(99), 99);
//! assert!(report.cycles > 0);
//!
//! // The stream is dynamic: add a shortcut, then retract it again. The
//! // deletion invalidates the levels derived through it and the repair
//! // diffusion re-relaxes them from the surviving path.
//! g.stream_increment(&[GraphMutation::AddEdge((0, 50, 1))]).unwrap();
//! assert_eq!(g.state_of(99), 50);
//! g.stream_increment(&[GraphMutation::DelEdge((0, 50, 1))]).unwrap();
//! assert_eq!(g.state_of(99), 99);
//! ```

pub use amcca_obs;
pub use amcca_sim;
pub use diffusive;
pub use gc_datasets;
pub use refgraph;
pub use sdgp_core;

/// The most common imports in one place.
pub mod prelude {
    pub use amcca_obs::{MetricsSnapshot, Obs};
    pub use amcca_sim::{
        ActivityRecording, Address, ChipConfig, Dims, EnergyModel, GhostPlacement, Operon, SimError,
    };
    pub use diffusive::{Device, FutureLco, RunReport, TerminationMode};
    pub use gc_datasets::{GcPreset, Sampling, SbmParams, SkewPreset, StreamingDataset};
    pub use sdgp_core::{
        apps::{BfsAlgo, CcAlgo, SsspAlgo, TriangleAlgo, MAX_LEVEL},
        graph::{
            symmetrize, symmetrize_mutations, GraphMutation, RepairMode, RepairStats, StreamEdge,
            StreamingGraph,
        },
        rpvo::RpvoConfig,
    };
}
