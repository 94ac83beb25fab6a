//! Sweep the machine-configuration grid — the §6 what-if analyses done
//! by re-simulation instead of Table 8 arithmetic — and print the
//! per-point CPI/stall breakdown with the worker-pool self-metrics.
//!
//! ```sh
//! cargo run --release --example sweep_ablations [instructions_per_workload]
//! ```
//!
//! Each point re-measures the five-workload composite under one ablated
//! configuration (cache size/ways, TB entries/split, write-buffer
//! depth, decode overlap). Every point × workload is one job of a
//! campaign, drained by the campaign engine's worker pool (one worker
//! per host core).

use vax780_core::sweep::SweepGrid;
use vax_workloads::WorkloadKind;

fn main() {
    let instructions: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    let grid = SweepGrid::all();
    eprintln!(
        "sweeping {} points x 5 workloads x {instructions} instructions ...",
        grid.len()
    );
    let (rows, metrics) =
        vax_serve::campaign::sweep(&grid, &WorkloadKind::ALL, instructions, 30_000, None)
            .unwrap_or_else(|e| panic!("{e}"));
    println!("=== configuration sweep ===");
    print!("{}", vax_analysis::sweep::render_table(&rows));
    println!("\n=== sweep self-metrics ===");
    println!("{metrics}");
}
