//! Render the chip-activation animation the paper generates from simulation
//! traces (§5: "We also create visual animations of the system from the
//! trace of the simulation showing how streaming dynamic BFS transfers
//! parallel control over the cellular grid").
//!
//! Streams a small SBM graph with BFS enabled while recording per-cycle
//! activity bitmaps, then plays selected frames as ASCII heat maps and
//! prints the Figure 6/7-style activity sparkline.
//!
//! ```sh
//! cargo run --release --example activation_animation            # summary
//! cargo run --release --example activation_animation -- --play  # all frames
//! ```

use amcca::prelude::*;
use amcca_sim::trace::{activity_sparkline, frame_ascii};

fn main() {
    let play = std::env::args().any(|a| a == "--play");

    let chip = ChipConfig {
        record_activity: ActivityRecording::Frames { stride: 8 },
        ..ChipConfig::default()
    };
    let dims = chip.dims;
    let cells = chip.cell_count();
    let preset = GcPreset::v50k(Sampling::Edge).scaled_down(50);
    let dataset = preset.build();
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(dataset.n_vertices)
        .chip(chip)
        .rpvo(RpvoConfig::default())
        .build()
        .unwrap();

    // Stream the first increment only — enough to watch the wave spread.
    let report = g.stream_edges(dataset.increment(0)).unwrap();
    let activity = &report.activity;
    println!(
        "increment 1: {} edges, {} cycles, {} frames captured",
        dataset.increment(0).len(),
        report.cycles,
        activity.frames.len()
    );
    println!("\nactivity over time (percent of {} cells):", cells);
    println!("|{}|", activity_sparkline(&activity.counts, cells, 72));

    // Play frames: every frame with --play, else four snapshots.
    let picks: Vec<usize> = if play {
        (0..activity.frames.len()).collect()
    } else {
        let n = activity.frames.len();
        [n / 10, n / 4, n / 2, (3 * n) / 4].into_iter().filter(|&i| i < n).collect()
    };
    for i in picks {
        let cycle = i as u32 * activity.frame_stride;
        let active = activity.counts.get(cycle as usize).copied().unwrap_or(0);
        println!(
            "\ncycle {:>6}  ({} cells active, {:.0}%):",
            cycle,
            active,
            active as f64 * 100.0 / cells as f64
        );
        print!("{}", frame_ascii(&activity.frames[i], dims));
        if play {
            std::thread::sleep(std::time::Duration::from_millis(40));
        }
    }
    println!("\n(tip: --play animates every frame)");
}
