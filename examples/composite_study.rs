//! The full characterization study: run all five workloads as a
//! campaign (one job per workload, drained by the campaign engine's
//! worker pool, one worker per core), merge their µPC histograms, and
//! print every table of the paper with the paper-vs-measured comparison
//! plus the simulator's own campaign metrics.
//!
//! ```sh
//! cargo run --release --example composite_study [instructions_per_workload]
//! ```

use vax780_core::MeasuredWorkload;
use vax_analysis::report::StudyReport;
use vax_serve::{run_campaign, JobSpec};
use vax_workloads::WorkloadKind;

fn main() {
    let instructions: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000);
    eprintln!("running 5 workloads x {instructions} instructions ...");
    let specs: Vec<JobSpec> = WorkloadKind::ALL
        .into_iter()
        .map(|kind| JobSpec {
            instructions,
            warmup: 30_000,
            ..JobSpec::new(kind)
        })
        .collect();
    let campaign = run_campaign(&specs, None, None).unwrap_or_else(|e| panic!("{e}"));
    eprintln!("{}", campaign.metrics);
    for r in &campaign.results {
        let a = r.analysis();
        eprintln!(
            "  {:<20} {:>9} instr  {:>10} cycles  CPI {:>5.2}",
            r.name,
            r.instructions,
            r.cycles,
            a.cpi()
        );
    }
    let analysis = MeasuredWorkload::composite(&campaign.results).analysis();
    let report = StudyReport::new(&analysis);
    println!(
        "=== composite: {} instructions, CPI {:.3} ===",
        analysis.instructions(),
        analysis.cpi()
    );
    println!("{}", report.rendered_tables);
    println!("=== paper vs measured ===");
    println!("{}", report.comparison_table());
}
