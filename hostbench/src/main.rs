//! Host-time benchmark of the vax780 simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload characterize|campaign|faulted --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for about `S` seconds and prints a report, then as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`). Exits 1 when any simulated output differs
//! from its pinned or reference value, naming the workload and job, and
//! 2 on bad arguments. `README.md` beside this file explains the design.

mod campaign;
mod check;
mod inputs;
mod layers;
mod sim;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The three workloads, by the names later changes refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's procedure on the five profiles at the default config.
    Characterize,
    /// Hundreds of short jobs through an in-process campaign server.
    Campaign,
    /// Shrunk cache/TB geometry with a seeded fault plan armed.
    Faulted,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Characterize,
        Workload::Campaign,
        Workload::Faulted,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Characterize => "characterize",
            Workload::Campaign => "campaign",
            Workload::Faulted => "faulted",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work one round does. Rounds repeat until the run's seconds
/// are spent, so the per-round work is fixed and every job can be
/// pinned; only the number of rounds follows the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// `characterize`: machines per profile, each built from its own
    /// pooled profile seed.
    pub draws: usize,
    /// `characterize`: warm-up instructions per machine.
    pub warmup: u64,
    /// `characterize`: instructions per measured chunk.
    pub chunk: u64,
    /// `characterize`: chunks per machine.
    pub chunks: usize,
    /// `faulted`: machines per profile.
    pub faulted_draws: usize,
    /// `faulted`: warm-up instructions per machine.
    pub faulted_warmup: u64,
    /// `faulted`: instructions per measured chunk.
    pub faulted_chunk: u64,
    /// `faulted`: chunks per machine.
    pub faulted_chunks: usize,
    /// `campaign`: jobs per round.
    pub jobs: usize,
    /// `campaign`: warm-up instructions per job.
    pub job_warmup: u64,
    /// `campaign`: measured instructions per job.
    pub job_instructions: u64,
    /// `campaign`: the server compacts its journal after this many
    /// settlements.
    pub compact_every: usize,
}

/// Fewest rounds a run makes, whatever its seconds: every unit of work
/// is timed at least this often.
pub const MIN_ROUNDS: usize = 2;

impl Size {
    /// The benchmark proper: the size `pinned.txt` holds digests for.
    pub const FULL: Size = Size {
        draws: 8,
        warmup: 50_000,
        chunk: 100_000,
        chunks: 2,
        faulted_draws: 16,
        faulted_warmup: 20_000,
        faulted_chunk: 20_000,
        faulted_chunks: 3,
        jobs: 60,
        job_warmup: 5_000,
        job_instructions: 25_000,
        compact_every: 20,
    };

    /// A smoke-test size: every code path, in well under a second.
    pub const TINY: Size = Size {
        draws: 1,
        warmup: 2_000,
        chunk: 2_000,
        chunks: 2,
        faulted_draws: 1,
        faulted_warmup: 1_000,
        faulted_chunk: 1_000,
        faulted_chunks: 1,
        jobs: 6,
        job_warmup: 500,
        job_instructions: 1_000,
        compact_every: 2,
    };
}

/// One run's settings, parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Check the default seed's jobs against `pinned.txt`.
    pub pinned: bool,
    /// Scratch directory for journals and sockets, relative to the
    /// working directory so socket paths stay short.
    pub work_dir: PathBuf,
}

/// A named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics, printed by every untraced run, as
/// (name, unit). Their meaning per workload is in `README.md`.
pub const E2E_METRICS: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_mips", "MIPS"),
    ("jobs_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs and requests the run attempted.
    pub attempted: u64,
    /// Jobs that failed plus requests that were refused.
    pub failed: u64,
    /// One line per wrong simulated output; empty when correct.
    pub mismatches: Vec<String>,
    /// End-to-end metrics, in `E2E_METRICS` order.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only), in `layers::METRICS` order.
    pub layers: Vec<Metric>,
    /// Report lines printed before the JSON result.
    pub notes: Vec<String>,
    /// Every job's digest and CPI, as `pinned.txt` lines.
    pub pins: Vec<String>,
}

/// Run one workload as `options` say, timing set-up from `started`.
pub fn run(options: &Options, started: Instant) -> Outcome {
    let deadline = started + Duration::from_secs_f64(options.seconds);
    let _ = std::fs::remove_dir_all(&options.work_dir);
    let outcome = match options.workload {
        Workload::Characterize | Workload::Faulted => sim::run(options, started, deadline),
        Workload::Campaign => campaign::run(options, started, deadline),
    };
    let _ = std::fs::remove_dir_all(&options.work_dir);
    outcome
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object. Non-finite values print as 0 so
/// the line always parses.
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace { &outcome.layers } else { &outcome.e2e };
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.mismatches.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
    )
}

fn usage() -> &'static str {
    "usage: hostbench --workload characterize|campaign|faulted --seed N --seconds S --trace 0|1"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {value:?}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {value:?}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::FULL,
        pinned: true,
        work_dir: PathBuf::from(format!(".hostbench-work-{}", std::process::id())),
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("hostbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(&options, started);
    println!(
        "hostbench {} seed {} ({} s{}, {} host threads)",
        options.workload.name(),
        options.seed,
        options.seconds,
        if options.trace { ", traced" } else { "" },
        campaign::host_threads(),
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let shown = if options.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    for m in shown {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for mismatch in &outcome.mismatches {
        eprintln!("hostbench: MISMATCH {mismatch}");
    }
    println!("{}", result_json(&outcome, options.trace));
    if outcome.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, seed: u64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds: 0.01,
            trace,
            size: Size::TINY,
            pinned: true,
            work_dir: PathBuf::from(format!(
                ".hostbench-test-{}-{}-{seed}-{trace}",
                std::process::id(),
                workload.name()
            )),
        }
    }

    /// Metric (name, unit) pairs from the `end_to_end` or `per_layer`
    /// list of the repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("key present");
                    entry[at..]
                        .split('"')
                        .nth(3)
                        .expect("string value")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_workload_runs_at_tiny_size_and_prints_every_metric() {
        for workload in Workload::ALL {
            for (seed, trace) in [(inputs::DEFAULT_SEED, false), (7, true)] {
                let options = tiny(workload, seed, trace);
                let outcome = run(&options, Instant::now());
                let name = workload.name();
                assert!(
                    outcome.mismatches.is_empty(),
                    "{name}: {:?}",
                    outcome.mismatches
                );
                assert_eq!(outcome.failed, 0, "{name}");
                assert!(outcome.attempted > 0, "{name}");
                let (section, printed) = if trace {
                    ("per_layer", &outcome.layers)
                } else {
                    ("end_to_end", &outcome.e2e)
                };
                let printed: Vec<(String, String)> = printed
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert_eq!(printed, declared(section), "{name} trace={trace}");
                let line = result_json(&outcome, trace);
                for (metric, unit) in &printed {
                    assert!(!unit.is_empty(), "{metric} has a unit");
                    assert!(
                        line.contains(&format!("\"{metric}\": {{\"value\": ")),
                        "{name}: {metric} missing from {line}"
                    );
                }
                assert!(!options.work_dir.exists(), "{name}: work dir removed");
            }
        }
    }

    #[test]
    fn the_code_names_the_metrics_benchmark_json_declares() {
        let e2e: Vec<(String, String)> = E2E_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, declared("end_to_end"));
        let per_layer: Vec<(String, String)> = layers::METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(per_layer, declared("per_layer"));
    }

    /// Rewrite `pinned.txt` from one unpinned full-size run per workload.
    #[test]
    #[ignore = "rewrites pinned.txt; run after a deliberate change to simulated results"]
    fn regenerate_pins() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/pinned.txt");
        let old = std::fs::read_to_string(path).expect("pinned.txt reads");
        let mut text: String = old
            .lines()
            .take_while(|l| l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        for workload in Workload::ALL {
            let options = Options {
                size: Size::FULL,
                pinned: false,
                ..tiny(workload, inputs::DEFAULT_SEED, false)
            };
            let outcome = run(&options, Instant::now());
            assert!(outcome.mismatches.is_empty(), "{:?}", outcome.mismatches);
            for line in outcome.pins {
                text.push_str(&line);
                text.push('\n');
            }
        }
        std::fs::write(path, text).expect("pinned.txt writes");
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload faulted --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::Faulted, 9, 3.0, true)
        );
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload campaign --trace 2",
            "--workload campaign --seconds 0",
            "--workload campaign --seed x",
            "--workload campaign --bogus 1",
            "--workload campaign --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            e2e: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
            ..Outcome::default()
        };
        assert_eq!(
            result_json(&outcome, false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
