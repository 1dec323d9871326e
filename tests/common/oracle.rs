//! The shared differential-testing harness: rebuild-from-scratch oracles
//! for the streaming mutation pipeline.
//!
//! Every decremental / re-weighting repair path in the system is pinned by
//! one property: after ANY mutation sequence — any interleaving of
//! `AddEdge` / `DelEdge` / `UpdateWeight`, any batch split, any RPVO shape,
//! rhizomes on or off, any shard count, either repair mode — the converged
//! vertex states are **identical to rebuilding from scratch over the
//! surviving edge set**, every surviving copy is stored exactly once at its
//! current weight, all mirrors agree, and cold rhizomes are demoted.
//! [`assert_matches_rebuild`] checks all of that in one call; [`Rebuild`] is
//! the builder behind it for tests that need a non-default shape (chip seed,
//! batch split, explicit `RpvoConfig`, full-wave repair) or the streamed
//! graph back for extra assertions.

use amcca::prelude::*;
use refgraph::{bfs_levels, dijkstra, min_labels, DiGraph};
use sdgp_core::apps::VertexAlgo;

/// Default vertex count of harness graphs (kept small: diffusion tests are
/// cycle-accurate simulations).
pub const N: u32 = 24;

/// Which algorithm(s) a differential check runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Streaming BFS vs `refgraph::bfs_levels` from vertex 0.
    Bfs,
    /// Streaming SSSP vs `refgraph::dijkstra` from vertex 0.
    Sssp,
    /// Streaming CC (over the symmetrized stream) vs `refgraph::min_labels`.
    Cc,
}

/// All three differential algorithms.
pub const ALL_ALGOS: [Algo; 3] = [Algo::Bfs, Algo::Sssp, Algo::Cc];

/// Replay a mutation sequence under the host mutation log's semantics and return
/// the surviving edge multiset at current weights, in insertion order: a
/// delete removes the *oldest* live copy of its `(u, v, w)` identity, an
/// update re-weights the *oldest* live copy of its pair.
pub fn surviving_edges(muts: &[GraphMutation]) -> Vec<StreamEdge> {
    surviving_labeled_edges(muts).into_iter().map(|(e, _)| e).collect()
}

/// [`surviving_edges`] with per-copy labels: labeled inserts keep their
/// label through re-weights, and deletes stay label-agnostic (they name a
/// copy by `(u, v, w)` alone) — the same semantics the host's log applies.
/// The ground truth a standing-query oracle runs over.
pub fn surviving_labeled_edges(muts: &[GraphMutation]) -> Vec<(StreamEdge, u8)> {
    let mut live: Vec<(StreamEdge, u8)> = Vec::new();
    for m in muts {
        match *m {
            GraphMutation::AddEdge(e) => live.push((e, 0)),
            GraphMutation::AddLabeledEdge(e, l) => live.push((e, l)),
            GraphMutation::DelEdge((u, v, w)) => {
                let i = live
                    .iter()
                    .position(|&(e, _)| e == (u, v, w))
                    .expect("script deletes only live edges");
                live.remove(i);
            }
            GraphMutation::UpdateWeight { u, v, w } => {
                let i = live
                    .iter()
                    .position(|&((a, b, _), _)| (a, b) == (u, v))
                    .expect("script updates only live pairs");
                live[i].0 .2 = w;
            }
        }
    }
    live
}

/// One differential check's shape. Build with [`Rebuild::new`], refine with
/// the builder methods, run with [`Rebuild::check`] (or the per-algorithm
/// variants when the streamed graph is needed for extra assertions).
#[derive(Debug, Clone, Copy)]
pub struct Rebuild {
    /// Vertex count.
    pub n: u32,
    /// Number of batches the mutation sequence is split into (boundaries
    /// are arbitrary — splits must not change the fixpoint).
    pub chunks: usize,
    /// Chip shard count (results must be shard-count-independent).
    pub shards: usize,
    /// Chip placement seed.
    pub seed: u64,
    /// RPVO shape (edge cap, ghost fanout, rhizome threshold and K).
    pub rcfg: RpvoConfig,
    /// Reseed scoping of delete-bearing batches.
    pub repair: RepairMode,
}

impl Rebuild {
    /// The harness default: 24 vertices, one batch, cap-3 RPVOs, targeted
    /// repair; `k <= 1` is the single-root reference, `k >= 2` promotes at
    /// live degree 6 into `k` co-equal roots.
    pub fn new(k: usize, shards: usize) -> Rebuild {
        let base = RpvoConfig::basic(3, 2);
        Rebuild {
            n: N,
            chunks: 1,
            shards,
            seed: ChipConfig::small_test().seed,
            rcfg: if k <= 1 { base } else { base.with_rhizomes(6, k) },
            repair: RepairMode::Targeted,
        }
    }

    /// Split the mutation sequence into `chunks` batches.
    pub fn chunks(mut self, chunks: usize) -> Rebuild {
        self.chunks = chunks.max(1);
        self
    }

    /// Override the vertex count.
    pub fn n(mut self, n: u32) -> Rebuild {
        self.n = n;
        self
    }

    /// Override the chip placement seed.
    pub fn seed(mut self, seed: u64) -> Rebuild {
        self.seed = seed;
        self
    }

    /// Override the RPVO shape entirely.
    pub fn rcfg(mut self, rcfg: RpvoConfig) -> Rebuild {
        self.rcfg = rcfg;
        self
    }

    /// Override the repair mode.
    pub fn repair(mut self, repair: RepairMode) -> Rebuild {
        self.repair = repair;
        self
    }

    fn chip(&self) -> ChipConfig {
        ChipConfig { seed: self.seed, ..ChipConfig::small_test() }.with_shards(self.shards)
    }

    /// Run one algorithm's differential check (CC symmetrizes internally).
    pub fn check(&self, algo: Algo, muts: &[GraphMutation]) {
        match algo {
            Algo::Bfs => {
                self.check_bfs(muts);
            }
            Algo::Sssp => {
                self.check_sssp(muts);
            }
            Algo::Cc => {
                self.check_cc(muts);
            }
        }
    }

    /// BFS vs rebuild over the survivors; returns the streamed graph.
    pub fn check_bfs(&self, muts: &[GraphMutation]) -> StreamingGraph<BfsAlgo> {
        let live = surviving_edges(muts);
        let oracle = bfs_levels(&DiGraph::from_edges(self.n, live.iter().copied()), 0);
        self.run_and_verify(BfsAlgo::new(0), muts, &live, &oracle, "BFS")
    }

    /// SSSP vs Dijkstra over the survivors; returns the streamed graph.
    pub fn check_sssp(&self, muts: &[GraphMutation]) -> StreamingGraph<SsspAlgo> {
        let live = surviving_edges(muts);
        let oracle = dijkstra(&DiGraph::from_edges(self.n, live.iter().copied()), 0);
        self.run_and_verify(SsspAlgo::new(0), muts, &live, &oracle, "SSSP")
    }

    /// CC over the *symmetrized* stream vs min-labels over the symmetric
    /// survivors; returns the streamed graph.
    pub fn check_cc(&self, muts: &[GraphMutation]) -> StreamingGraph<CcAlgo> {
        let sym = symmetrize_mutations(muts);
        let live = surviving_edges(&sym);
        let oracle = min_labels(&DiGraph::from_edges(self.n, live.iter().copied()));
        self.run_and_verify(CcAlgo, &sym, &live, &oracle, "CC")
    }

    /// Stream `muts` in batches, then assert the full invariant set:
    /// fixpoint == rebuild oracle, edge conservation at current weights,
    /// mirror consistency, and the rhizome demotion invariant.
    fn run_and_verify<G: VertexAlgo>(
        &self,
        algo: G,
        muts: &[GraphMutation],
        live: &[StreamEdge],
        oracle: &[G::State],
        what: &str,
    ) -> StreamingGraph<G> {
        let mut g = StreamingGraph::builder(algo)
            .vertices(self.n)
            .chip(self.chip())
            .rpvo(self.rcfg)
            .repair(self.repair)
            .build()
            .expect("graph construction");
        for c in muts.chunks(muts.len().div_ceil(self.chunks).max(1)) {
            g.stream_increment(c).expect("increment runs to quiescence");
        }
        assert_eq!(g.states(), oracle, "{what} fixpoint vs rebuild over survivors");
        self.verify_conservation(&g, live);
        g.check_mirror_consistency().expect("mirrors agree at quiescence");
        self.verify_demotion(&g);
        g
    }

    /// Conservation: exactly the surviving copies are stored, at their
    /// current weights, nothing over capacity, host count == fabric.
    fn verify_conservation<G: VertexAlgo>(&self, g: &StreamingGraph<G>, live: &[StreamEdge]) {
        assert_eq!(g.total_edges_stored(), live.len() as u64, "stored == surviving");
        assert_eq!(g.live_edge_count(), live.len() as u64, "host count agrees with fabric");
        for u in 0..self.n {
            let mut got = g.logical_edges(u);
            got.sort_unstable();
            let mut want: Vec<(u32, u32)> =
                live.iter().filter(|&&(s, _, _)| s == u).map(|&(_, d, w)| (d, w)).collect();
            want.sort_unstable();
            assert_eq!(got, want, "vertex {u} surviving edge multiset (current weights)");
            for a in g.rhizome_objects(u) {
                let obj = g.device().object(a).expect("object live");
                assert!(obj.edges.len() <= self.rcfg.edge_cap, "capacity respected");
                assert_eq!(obj.vid, u);
            }
        }
    }

    /// Demotion invariant: no vertex keeps multiple roots below the
    /// promotion threshold once an increment's sweep has run.
    fn verify_demotion<G: VertexAlgo>(&self, g: &StreamingGraph<G>) {
        let threshold = self.rcfg.rhizome_threshold as u32;
        for v in 0..self.n {
            if g.roots_of(v).len() > 1 {
                assert!(
                    g.live_degree(v) >= threshold,
                    "vertex {v} keeps {} roots at live degree {}",
                    g.roots_of(v).len(),
                    g.live_degree(v)
                );
            }
        }
    }
}

/// The one-call differential harness: for each algorithm, rebuild from
/// scratch over the survivors of `muts` and assert fixpoints, conservation,
/// mirrors, and rhizome invariants all match the streamed run (rhizome root
/// count `k`, chip shard count `shards`, harness-default shape otherwise).
pub fn assert_matches_rebuild(muts: &[GraphMutation], algos: &[Algo], k: usize, shards: usize) {
    let r = Rebuild::new(k, shards);
    for &a in algos {
        r.check(a, muts);
    }
}
