#![warn(missing_docs)]
//! # amcca-sim — cycle-level simulator for the AM-CCA architecture
//!
//! AM-CCA (Asynchronous-Messaging Continuum Computer Architecture) is a mesh
//! of homogeneous **Compute Cells**, each with its own scratchpad memory and
//! compute logic, programmed with asynchronous active messages ("operons")
//! that send *work to data*. This crate simulates such a chip at the level of
//! individual message movements, reproducing the experimental platform of
//!
//! > Chandio, Brodowicz, Sterling. *Structures and Techniques for Streaming
//! > Dynamic Graph Processing on Decentralized Message-Driven Systems.*
//! > ICPP 2024 (arXiv:2406.01201).
//!
//! Timing rules (paper §4): one message moves one hop per cycle over the
//! YX-routed mesh; one compute cell retires one instruction *or* stages one
//! outgoing message per cycle; border IO cells inject one operon per cycle.
//! The chip reports event counters, per-cycle activity (Figures 6–7), and
//! energy under a calibrated linear model (Table 2).
//!
//! The crate is application-agnostic: programs implement [`Program`] and are
//! plugged into [`Chip`]. The `diffusive` crate builds the paper's
//! programming model (actions, futures, continuations) on top of this.
//!
//! ## Parallel execution
//!
//! The mesh is cut into [`ChipConfig::shards`] contiguous column bands (one
//! by default), and every band visits only its own live cells. With more
//! than one band, the whole-run entry points step one band per thread (band
//! 0 on the calling thread) from a run's first cycle to its stop, exchanging
//! cross-band operons at a cycle barrier. Results are **bit-identical to one
//! band for any shard count**. See [`shard`] and the crate's
//! `shard_equivalence` tests.

pub mod arena;
pub mod cell;
pub mod chip;
pub mod config;
pub mod cost;
pub mod energy;
pub mod error;
pub mod geom;
pub mod iocell;
pub mod operon;
pub(crate) mod parallel;
pub mod placement;
pub mod program;
pub mod rng;
pub mod router;
pub mod safra;
pub mod shard;
pub mod stats;
pub mod trace;

pub use arena::{Arena, ArenaFull};
pub use chip::Chip;
pub use config::ChipConfig;
pub use cost::CostModel;
pub use energy::{cycles_to_us, EnergyModel};
pub use error::SimError;
pub use geom::{Coord, Dims, Direction};
pub use operon::{ActionId, Address, Operon};
pub use placement::{rhizome_cells, root_cell, GhostPlacement, PlacementTable};
pub use program::{ExecCtx, Program};
pub use rng::SplitMix64;
pub use safra::{CellTd, SafraState, ACT_TOKEN};
pub use shard::{run_tasks, ShardPlan};
pub use stats::{
    gini, max_mean_ratio, top_k_share, ActivityRecording, ActivitySeries, CellLoad, Counters,
};
