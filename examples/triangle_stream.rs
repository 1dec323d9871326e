//! Message-driven triangle counting over streamed increments — the first of
//! the paper's named future-work algorithms (§6).
//!
//! Streams an SBM graph increment by increment (symmetrized, as triangle
//! counting is an undirected query) and after each increment launches a
//! tri-gen diffusion wave that counts triangles exactly, verified against
//! the sequential node-iterator reference. The walk counts a triangle once
//! per stored copy of its edges, so only the first sighting of each
//! undirected pair is streamed: the stored graph stays simple.
//!
//! ```sh
//! cargo run --release --example triangle_stream
//! ```

use std::collections::HashSet;

use amcca::prelude::*;
use refgraph::count_triangles;
use sdgp_core::apps::ACT_TRI_GEN;

fn main() {
    let chip = ChipConfig::default();
    let ncc = chip.cell_count();
    let preset = GcPreset::v50k(Sampling::Edge).scaled_down(100); // 500 v, 10K e
    let dataset = preset.build();
    let n = dataset.n_vertices;
    let mut g = StreamingGraph::builder(TriangleAlgo::new(ncc))
        .vertices(n)
        .chip(chip)
        .rpvo(RpvoConfig::default())
        .build()
        .unwrap();

    println!(
        "streaming {} edges over {} increments, recounting triangles each time:\n",
        dataset.total_edges(),
        dataset.increments()
    );
    println!(
        "{:>9}  {:>10}  {:>10}  {:>12}  {:>9}",
        "increment", "edges", "triangles", "query cycles", "verified"
    );

    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut accumulated: Vec<(u32, u32)> = Vec::new();
    for i in 0..dataset.increments() {
        // Only the first sighting of each undirected pair.
        let mut inc = dataset.increment(i).to_vec();
        inc.retain(|&(u, v, _)| seen.insert((u.min(v), u.max(v))));
        // Undirected storage: stream both directions of every edge.
        g.stream_edges(&symmetrize(&inc)).unwrap();
        accumulated.extend(inc.iter().map(|&(u, v, _)| (u, v)));

        // Snapshot query: a tri-gen wave over all vertices.
        g.device_mut().app_mut().algo.reset();
        let wave: Vec<Operon> =
            (0..n).map(|v| Operon::new(g.addr_of(v), ACT_TRI_GEN, [0, 0])).collect();
        let q = g.run_query(wave).unwrap();
        let got = g.device().app().algo.total();
        let expect = count_triangles(n, accumulated.iter().copied());
        assert_eq!(got, expect, "triangle count mismatch at increment {i}");
        println!(
            "{:>9}  {:>10}  {:>10}  {:>12}  {:>9}",
            i + 1,
            accumulated.len(),
            got,
            q.cycles,
            "✓"
        );
    }
    println!("\nall increments verified against the sequential reference.");
}
