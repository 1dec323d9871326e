//! The paper's headline experiment in miniature: stream a GraphChallenge-
//! style SBM graph in ten increments (Edge and Snowball sampling) and
//! measure cycles per increment for ingestion-only vs ingestion-with-BFS —
//! the data behind Figures 8 and 9 — then verify against the reference BFS.
//!
//! ```sh
//! cargo run --release --example streaming_bfs
//! ```

use amcca::prelude::*;
use refgraph::{bfs_levels, DiGraph};

fn run(sampling: Sampling) {
    let preset = GcPreset::v50k(sampling).scaled_down(50); // 1K vertices, 20K edges
    let dataset = preset.build();
    println!(
        "\n=== {} sampling: {} vertices, {} edges, {} increments ===",
        sampling,
        dataset.n_vertices,
        dataset.total_edges(),
        dataset.increments()
    );

    for with_bfs in [false, true] {
        let mut g = StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(dataset.n_vertices)
            .chip(ChipConfig::default())
            .rpvo(RpvoConfig::default())
            .propagate(with_bfs)
            .build()
            .unwrap();
        let mode = if with_bfs { "streaming edges with BFS" } else { "streaming edges" };
        print!("{mode:>26}: ");
        let mut total = 0u64;
        for i in 0..dataset.increments() {
            let r = g.stream_edges(dataset.increment(i)).unwrap();
            print!("{:6}", r.cycles);
            total += r.cycles;
        }
        println!("  | total {total} cycles");

        if with_bfs {
            // Verify the final levels against a sequential BFS (the paper
            // checks against NetworkX, §4).
            let reference = bfs_levels(
                &DiGraph::from_edges(dataset.n_vertices, dataset.all_edges().iter().copied()),
                0,
            );
            assert_eq!(g.states(), reference, "streamed BFS must match the oracle");
            println!("{:>26}  levels verified against reference BFS ✓", "");
        }
    }
}

fn main() {
    run(Sampling::Edge);
    run(Sampling::Snowball);
}
